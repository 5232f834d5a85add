//! Log₂-bucketed histogram with linear sub-buckets.
//!
//! The bucket layout is the classic HDR shape with 2 significant bits:
//! values below 4 get exact unit buckets; above that, each power-of-two
//! range is split into 4 linear sub-buckets, so every bucket's width is
//! at most 25% of its lower bound. A recorded value therefore reports a
//! percentile within ~25% of the exact answer at any magnitude, which is
//! plenty for distributions spanning several orders of magnitude —
//! while `observe` stays three adds with no allocation.
//!
//! A histogram is report data, not an instrumentation hook: a plain
//! value that records whether or not [`crate::set_enabled`] has switched
//! spans off.

/// Linear sub-bucket bits per power-of-two range.
const SUB_BITS: u32 = 2;
/// Sub-buckets per power-of-two range (4).
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: one group of unit
/// buckets plus one group per exponent in `SUB_BITS..64`.
pub const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) * SUB_COUNT;

/// Maps a value to its bucket index. Exposed so tests can check the
/// "within one bucket" percentile guarantee directly.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let group = (exp - SUB_BITS + 1) as usize;
        let sub = ((v >> (exp - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        group * SUB_COUNT + sub
    }
}

/// Inclusive upper bound of a bucket: the largest value that maps to
/// `idx`. Percentile estimates report this bound.
pub fn bucket_upper(idx: usize) -> u64 {
    assert!(idx < BUCKET_COUNT, "bucket index {idx} out of range");
    if idx < SUB_COUNT {
        idx as u64
    } else {
        let group = (idx / SUB_COUNT) as u32;
        let next = ((SUB_COUNT + idx % SUB_COUNT + 1) as u128) << (group - 1);
        if next > u64::MAX as u128 {
            u64::MAX
        } else {
            (next - 1) as u64
        }
    }
}

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Observation count per bucket, indexed by [`bucket_index`].
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation. The sum wraps on overflow.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observation count per bucket, indexed by [`bucket_index`].
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Nearest-rank percentile estimate (`p` in 0..=100): the inclusive
    /// upper bound of the bucket holding the rank-th observation, i.e.
    /// within one bucket (≤25%) of the exact order statistic. Returns 0
    /// for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(BUCKET_COUNT - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Every bucket's upper bound maps back to that bucket, and the
        // next value maps to the next non-empty bucket.
        for idx in 0..BUCKET_COUNT {
            let hi = bucket_upper(idx);
            assert_eq!(bucket_index(hi), idx, "upper bound of bucket {idx}");
            if hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), idx + 1, "bucket {idx} successor");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_width_stays_within_quarter_of_lower_bound() {
        for idx in SUB_COUNT..BUCKET_COUNT {
            let hi = bucket_upper(idx);
            let lo = bucket_upper(idx - 1).saturating_add(1);
            assert!(hi >= lo);
            if hi < u64::MAX {
                assert!(
                    (hi - lo) as u128 * 4 <= lo as u128,
                    "bucket {idx} [{lo}, {hi}] wider than 25% of its floor"
                );
            }
        }
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // p50 of 1..=100 is 50; bucket holding 50 is [48, 55].
        let p50 = h.percentile(50.0);
        assert_eq!(bucket_index(p50), bucket_index(50));
        let p99 = h.percentile(99.0);
        assert_eq!(bucket_index(p99), bucket_index(99));
        assert_eq!(h.percentile(0.0), bucket_upper(bucket_index(1)));
        assert_eq!(h.percentile(100.0), bucket_upper(bucket_index(100)));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.count(), 0);
        assert!(h.buckets().iter().all(|&n| n == 0));
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }
}
