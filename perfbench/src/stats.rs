//! Order statistics over timing samples.

/// The `p`-th percentile (0–100) of `samples`, interpolating linearly between
/// the two closest ranks. Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentiles a `_tail` metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The `_tail` of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that still has at least ten samples above its rank,
/// returned as `(percentile, value)`. With fewer than twenty samples no
/// percentile qualifies and the maximum is reported as percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    for p in TAIL_LADDER {
        let rank = (p / 100.0 * n.saturating_sub(1) as f64).floor() as usize;
        if n >= 1 && n - 1 - rank >= 10 {
            return (p, percentile(samples, p));
        }
    }
    (100.0, percentile(samples, 100.0))
}

/// The median of a log₂-bucket histogram (bucket 0 holds 0, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i - 1]`), interpolated linearly inside the bucket the
/// median falls in. Returns 0 for an empty histogram.
pub fn histogram_median(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut below = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = (1u64 << i.min(63)) as f64;
            return lo + (hi - lo) * (target - below as f64) / count as f64;
        }
        below += count;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&samples).0, 99.0);
        let samples: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(tail(&samples).0, 50.0);
        assert_eq!(tail(&[1.0, 5.0]), (100.0, 5.0));
    }

    #[test]
    fn histogram_median_lands_in_the_right_bucket() {
        // Four observations in [4, 7] (bucket 3) and two in [8, 15].
        let mut buckets = vec![0u64; 40];
        buckets[3] = 4;
        buckets[4] = 2;
        let m = histogram_median(&buckets);
        assert!((4.0..8.0).contains(&m), "{m}");
    }
}
