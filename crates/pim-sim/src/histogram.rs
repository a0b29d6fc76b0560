//! [`LatencyHistogram`]: a mergeable log-bucketed histogram for latency
//! samples.
//!
//! The service layer records one sample per committed transaction (queueing
//! delay, service time, total sojourn) and needs percentiles that survive
//! aggregation across tasklets, worker threads and fleet shards **without**
//! keeping every sample. The histogram here is the shared, time-domain-
//! agnostic core (samples are plain `u64`s — simulator cycles or wall
//! nanoseconds); the service layer wraps it in a domain-tagged type the
//! same way `ExecProfile` wraps [`ProfileCore`](crate::ProfileCore).
//!
//! # Bucketing
//!
//! HDR-histogram-style log-linear buckets: values below 16 get exact unit
//! buckets; above that, each power-of-two octave is split into 8 linear
//! sub-buckets, bounding the relative quantile error at 12.5% while keeping
//! the bucket array small (496 entries) and fixed-size for all values up to
//! `u64::MAX`.
//!
//! # Merge contract
//!
//! [`LatencyHistogram::merge`] is element-wise addition, so
//! `hist(A ∪ B) == merge(hist(A), hist(B))` **exactly** — not approximately.
//! Merging is therefore associative and commutative (pinned by proptest in
//! `tests/proptest_invariants.rs`), which is what makes fleet-merged
//! percentiles independent of worker count and shard count.

/// Sub-buckets per power-of-two octave (8 ⇒ ≤ 12.5% relative error).
const SUB: usize = 8;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 3;
/// Total bucket count: unit buckets for `[0, 16)` plus 8 sub-buckets for
/// each octave up to 2^63.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A mergeable log-bucketed histogram of `u64` latency samples.
///
/// See the [module documentation](self) for the bucketing scheme and the
/// exact-merge contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Index of the bucket holding `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value < (2 * SUB) as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUB - 1);
            (msb as usize - SUB_BITS as usize + 1) * SUB + sub
        }
    }

    /// Smallest value landing in bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bucket_low(index: usize) -> u64 {
        assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
        if index < 2 * SUB {
            index as u64
        } else {
            let octave = index / SUB;
            let sub = (index % SUB) as u64;
            let msb = (octave + SUB_BITS as usize - 1) as u32;
            (1u64 << msb) + (sub << (msb - SUB_BITS))
        }
    }

    /// Largest value landing in bucket `index` (inclusive).
    pub fn bucket_high(index: usize) -> u64 {
        if index + 1 < NUM_BUCKETS {
            Self::bucket_low(index + 1) - 1
        } else {
            u64::MAX
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`: an upper bound for the `ceil(q·n)`-th
    /// smallest sample, clamped to the exact maximum. Monotone in `q`, so
    /// `p99 ≥ p95 ≥ p50` always holds. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self` by element-wise bucket addition, so the
    /// result equals the histogram of the union of both sample sets exactly.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(low, high, count)` ranges (inclusive
    /// bounds), lowest first — the compact form the JSON report emits.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_low(i), Self::bucket_high(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        // Unit buckets below 16: every quantile is the true order statistic.
        let mut h = LatencyHistogram::new();
        for v in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 9);
        assert_eq!(h.quantile(0.5), 3); // 4th smallest of [1,1,2,3,4,5,6,9]
        assert_eq!(h.quantile(1.0), 9);
        assert_eq!(h.sum(), 31);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        // low(0) == 0, buckets are contiguous, and every value maps into a
        // bucket whose [low, high] range contains it.
        assert_eq!(LatencyHistogram::bucket_low(0), 0);
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                LatencyHistogram::bucket_high(i) + 1,
                LatencyHistogram::bucket_low(i + 1),
                "buckets {i} and {} must be contiguous",
                i + 1
            );
        }
        for v in [0u64, 1, 7, 8, 15, 16, 17, 18, 1000, u64::MAX / 2, u64::MAX] {
            let b = LatencyHistogram::bucket_of(v);
            assert!(LatencyHistogram::bucket_low(b) <= v, "low({b}) > {v}");
            assert!(v <= LatencyHistogram::bucket_high(b), "{v} > high({b})");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 123_456, 1 << 40] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let p = h.quantile(0.5);
            assert!(p >= v, "quantile must upper-bound the sample");
            assert!(p as f64 <= v as f64 * 1.125 + 1.0, "error beyond 12.5%: {v} -> {p}");
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(x >> 40);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn merge_equals_union() {
        let samples_a = [5u64, 80, 1 << 20, 3, 999];
        let samples_b = [12u64, 7_000, 1 << 30];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for v in samples_a {
            a.record(v);
            union.record(v);
        }
        for v in samples_b {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union, "merge must equal the histogram of the union");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(42, 5);
        for _ in 0..5 {
            b.record(42);
        }
        assert_eq!(a, b);
        a.record_n(7, 0);
        assert_eq!(a, b, "recording zero samples must be a no-op");
    }

    #[test]
    fn nonzero_buckets_cover_all_samples() {
        let mut h = LatencyHistogram::new();
        h.record(3);
        h.record_n(100, 4);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, _, c)| c).sum::<u64>(), 5);
        for (low, high, _) in buckets {
            assert!(low <= high);
        }
    }
}
