//! Sample summaries shared by every workload: medians, quantiles, the
//! tail-percentile rule and SLO attainment.

use llm_serving::percentile;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [(f64, &str); 3] = [(0.99, "p99"), (0.90, "p90"), (0.50, "p50")];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder p99 > p90 > p50 that has at least
/// [`TAIL_MIN_BEYOND`] of `count` samples beyond it, as `(quantile, label)`.
/// `None` when even the median is unsupported.
pub fn tail_percentile(count: usize) -> Option<(f64, &'static str)> {
    TAIL_LADDER.into_iter().find(|&(q, _)| {
        // Samples strictly above the q-quantile of `count` samples.
        let beyond = count - ((count as f64) * q).ceil() as usize;
        beyond >= TAIL_MIN_BEYOND
    })
}

/// Share of attempted requests that met their SLO. Requests that failed,
/// were refused or never finished are in `attempted` but not in `met`, so
/// they count as misses.
pub fn slo_attainment(met: usize, attempted: usize) -> f64 {
    assert!(
        met <= attempted,
        "{met} requests met the SLO out of {attempted} attempted"
    );
    if attempted == 0 {
        return 0.0;
    }
    met as f64 / attempted as f64
}

/// `q`-quantile of unsorted samples (linear interpolation); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // p99 needs 10 samples above it: 1000 samples leave exactly 10.
        assert_eq!(tail_percentile(1000), Some((0.99, "p99")));
        assert_eq!(tail_percentile(999), Some((0.90, "p90")));
        // p90 needs 100 samples; p50 needs 20.
        assert_eq!(tail_percentile(100), Some((0.90, "p90")));
        assert_eq!(tail_percentile(99), Some((0.50, "p50")));
        assert_eq!(tail_percentile(20), Some((0.50, "p50")));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn slo_attainment_counts_failures_as_misses() {
        // 100 attempted, 95 finished of which 90 met the SLO, 5 failed: the
        // failures are misses, so attainment is 90/100, not 90/95.
        assert_eq!(slo_attainment(90, 100), 0.9);
        assert_eq!(slo_attainment(0, 0), 0.0);
        assert_eq!(slo_attainment(7, 7), 1.0);
    }

    #[test]
    #[should_panic(expected = "met the SLO")]
    fn slo_attainment_rejects_more_met_than_attempted() {
        slo_attainment(3, 2);
    }

    #[test]
    fn quantiles_interpolate_unsorted_samples() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
