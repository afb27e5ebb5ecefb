//! Fixed-bucket HDR-style latency histogram.
//!
//! Per-read latencies span four-plus orders of magnitude once a channel
//! saturates (a row hit costs ~tens of bus cycles; a read stuck behind a
//! refresh storm plus a full write drain costs tens of thousands), so a
//! linear histogram is hopeless and a plain log2 histogram too coarse to
//! read a p99 from. The classic HDR compromise: log2 major buckets, each
//! split into `2^SUB_BITS` linear sub-buckets, giving O(1) recording, a
//! bounded relative error of `2^-SUB_BITS` (12.5% here), and a small
//! fixed footprint that keeps the containing stats `Copy`.
//!
//! Layout: values `0..8` get exact unit buckets; a value with most
//! significant bit `m >= 3` lands in sub-bucket `(v >> (m - 3)) - 8` of
//! major bucket `m`. Major buckets are clamped at `m = 20`, so anything
//! past ~2M bus cycles (≈ 2.6 ms at DDR4-1600 — far beyond any simulated
//! latency) collapses into the last bucket. The exact maximum is kept
//! separately, so the clamp only widens interior percentiles.

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear buckets (relative quantization error `2^-SUB_BITS`
/// = 12.5%).
const SUB_BITS: u32 = 3;
/// Sub-buckets per major (power-of-two) bucket.
const SUBS: usize = 1 << SUB_BITS;
/// Largest distinguished most-significant-bit position; values with a
/// higher msb clamp into the final bucket.
const MAX_MSB: u32 = 20;
/// Total bucket count: `SUBS` exact unit buckets for `0..SUBS`, then
/// `SUBS` sub-buckets per msb in `SUB_BITS..=MAX_MSB`.
pub const BUCKETS: usize = SUBS + (MAX_MSB - SUB_BITS + 1) as usize * SUBS;

/// A mergeable latency distribution with O(1) recording and ≤ 12.5%
/// bucket-quantization error (see the module docs for the layout).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    /// Exact largest recorded value (the clamp above never loses it).
    max: u64,
}

impl Default for LatencyHistogram {
    // Derived `Default` for arrays stops at 32 elements; spell it out.
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], max: 0 }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    // 152 mostly-zero counters are noise in a `{:?}` dump of the stats;
    // print the summary a reader actually wants.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

impl LatencyHistogram {
    /// Bucket index for value `v` (total function; overflow clamps).
    fn index_of(v: u64) -> usize {
        if v < SUBS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        if msb > MAX_MSB {
            return BUCKETS - 1;
        }
        let sub = (v >> (msb - SUB_BITS)) as usize - SUBS;
        SUBS + (msb - SUB_BITS) as usize * SUBS + sub
    }

    /// Inclusive lower bound of bucket `i` (the value `percentile`
    /// reports).
    fn bucket_floor(i: usize) -> u64 {
        if i < SUBS {
            return i as u64;
        }
        let major = (i - SUBS) / SUBS;
        let sub = (i - SUBS) % SUBS;
        ((SUBS + sub) as u64) << major
    }

    /// Records one value. O(1), no allocation.
    pub fn record(&mut self, v: u64) {
        self.max = self.max.max(v);
        self.buckets[Self::index_of(v)] += 1;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Lower bound of the bucket holding the `p`-quantile (`p` in
    /// `(0, 1]`; the rank is `ceil(p * count)`). Underestimates by at
    /// most the 12.5% bucket width. Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return Self::bucket_floor(i);
            }
        }
        // Unreachable: cum == total >= target after the last bucket.
        self.max
    }

    /// Element-wise accumulation (counts add; max takes the larger).
    pub fn merge_from(&mut self, o: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *a += b;
        }
        self.max = self.max.max(o.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::default();
        for v in 0..SUBS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUBS as u64);
        // Each unit bucket holds exactly its value.
        for v in 0..SUBS as u64 {
            assert_eq!(LatencyHistogram::index_of(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_contiguous() {
        // Indices never decrease with the value, never skip, and floors
        // invert the mapping (floor of v's bucket is <= v, and re-mapping
        // the floor lands in the same bucket).
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = LatencyHistogram::index_of(v);
            assert!(i == prev || i == prev + 1, "index jumped at v={v}");
            prev = i;
            let floor = LatencyHistogram::bucket_floor(i);
            assert!(floor <= v);
            assert_eq!(LatencyHistogram::index_of(floor), i);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [9u64, 100, 1_000, 12_345, 999_999] {
            let floor = LatencyHistogram::bucket_floor(LatencyHistogram::index_of(v));
            let err = (v - floor) as f64 / v as f64;
            assert!(err <= 0.125, "v={v} floor={floor} err={err}");
        }
    }

    #[test]
    fn overflow_clamps_into_last_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        h.record(1 << 40);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(LatencyHistogram::index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = LatencyHistogram::default();
        // 99 fast ops at 4 cycles, one straggler at 4096.
        for _ in 0..99 {
            h.record(4);
        }
        h.record(4096);
        assert_eq!(h.percentile(0.50), 4);
        assert_eq!(h.percentile(0.99), 4);
        assert_eq!(h.percentile(1.0), 4096);
        assert_eq!(h.max(), 4096);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(10);
        b.record(20_000);
        a.merge_from(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 20_000);
        assert_eq!(
            a.percentile(0.5),
            LatencyHistogram::bucket_floor(LatencyHistogram::index_of(10))
        );
    }
}
