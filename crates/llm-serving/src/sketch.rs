//! Deterministic streaming quantile sketch for constant-memory reports.
//!
//! [`QuantileSketch`] is a DDSketch-style relative-error histogram: values
//! are binned into exponentially sized buckets keyed by
//! `ceil(log_gamma(|v| / m))` with `gamma = (1 + alpha) / (1 - alpha)`, so
//! every bucket's representative value is within a factor `alpha` of every
//! sample it holds. Quantile queries walk the bucket counters to the
//! requested rank and return that bucket's representative, clamped into the
//! exact observed `[min, max]`.
//!
//! # Error bound
//!
//! With relative accuracy `alpha = 0.01`, `quantile(q)` over `n` samples
//! returns a value within `alpha * |x|` of `x`, where `x` is the sample at rank
//! `round(q * (n - 1))` of the sorted samples — an adjacent rank of the
//! exact interpolated percentile. (Magnitudes at or below the zero band
//! `1e-12` collapse to exactly `0.0`.) Unlike the exact
//! [`crate::metrics::percentile`], no interpolation between adjacent ranks
//! happens; with one sample per bucket the clamp makes small-n queries
//! exact at the extremes.
//!
//! # Determinism and merging
//!
//! Buckets are plain `u64` counters in a `BTreeMap`, so
//! [`QuantileSketch::merge`] is bucket-wise integer addition: exactly
//! associative and commutative. Merging per-replica sketches in any order
//! yields bit-identical bucket contents, hence bit-identical quantiles,
//! regardless of replica ordering or worker-thread count. (Only the running
//! `sum` used for the mean is a float accumulation; the cluster always
//! merges in replica-index order, so means are deterministic for a fixed
//! fleet too.)

use crate::metrics::SummaryStats;
use std::collections::BTreeMap;

/// Relative accuracy `alpha` of every [`QuantileSketch`]: 1%.
const RELATIVE_ERROR: f64 = 0.01;

/// Magnitudes at or below this collapse into the sketch's zero band and are
/// reported as exactly `0.0`. Latency samples are in seconds; a picosecond
/// resolution floor is far below anything the cost model produces.
const ZERO_BAND: f64 = 1e-12;

/// A mergeable, deterministic quantile sketch with a relative error bound.
///
/// Handles negative samples (TTFT slack can be negative) via a mirrored
/// bucket store, and tracks exact `count` / `sum` / `min` / `max` alongside
/// the approximate buckets, so means and extremes stay exact.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    gamma: f64,
    ln_gamma: f64,
    /// Bucket counters for positive magnitudes, keyed by
    /// `ceil(log_gamma(v / ZERO_BAND))`.
    pos: BTreeMap<i32, u64>,
    /// Bucket counters for negative magnitudes (same keying on `|v|`).
    neg: BTreeMap<i32, u64>,
    /// Samples with `|v| <= ZERO_BAND`.
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch with 1% relative accuracy per bucket.
    pub fn new() -> Self {
        let gamma = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);
        QuantileSketch {
            gamma,
            ln_gamma: gamma.ln(),
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of samples observed.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples have been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all observed samples (accumulated in observation order).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Exact minimum observed sample (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum observed sample (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Record one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (a NaN or infinity would silently
    /// poison percentiles, exactly like the NaN check in
    /// [`SummaryStats::from_samples`]).
    pub fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "sketch samples must be finite");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let magnitude = value.abs();
        if magnitude <= ZERO_BAND {
            self.zero += 1;
        } else {
            let key = self.key_for(magnitude);
            let store = if value > 0.0 {
                &mut self.pos
            } else {
                &mut self.neg
            };
            *store.entry(key).or_insert(0) += 1;
        }
    }

    /// Fold another sketch into this one: bucket-wise counter addition, so
    /// the result is independent of merge order (see module docs).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&k, &c) in &other.pos {
            *self.pos.entry(k).or_insert(0) += c;
        }
        for (&k, &c) in &other.neg {
            *self.neg.entry(k).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate quantile: the representative of the bucket holding the
    /// sample at rank `round(q * (count - 1))`, clamped into the observed
    /// `[min, max]`. Returns 0.0 when empty (matching
    /// [`crate::metrics::percentile`] on an empty slice).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        // Ascending value order: most-negative first (descending |v| keys),
        // then the zero band, then positives (ascending |v| keys).
        for (&k, &c) in self.neg.iter().rev() {
            cum += c;
            if cum > rank {
                return (-self.representative(k)).clamp(self.min, self.max);
            }
        }
        cum += self.zero;
        if cum > rank {
            return 0.0f64.clamp(self.min, self.max);
        }
        for (&k, &c) in self.pos.iter() {
            cum += c;
            if cum > rank {
                return self.representative(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Summarize as [`SummaryStats`]: exact count/mean/max, sketch-derived
    /// p50/p99.
    pub fn summary(&self) -> SummaryStats {
        if self.count == 0 {
            return SummaryStats::default();
        }
        SummaryStats {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Bucket key for a positive magnitude above the zero band. Bucket `k`
    /// covers `(ZERO_BAND * gamma^(k-1), ZERO_BAND * gamma^k]`.
    fn key_for(&self, magnitude: f64) -> i32 {
        ((magnitude / ZERO_BAND).ln() / self.ln_gamma).ceil() as i32
    }

    /// Midpoint representative of bucket `k`: within `alpha` relative error
    /// of every magnitude the bucket covers.
    fn representative(&self, k: i32) -> f64 {
        ZERO_BAND * self.gamma.powi(k) * 2.0 / (1.0 + self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::mix64;

    /// Deterministic uniform f64 in [0, 1) from a counter.
    fn unit(seed: u64, i: u64) -> f64 {
        (mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Assert the sketch quantile is within its documented bound of the
    /// adjacent-rank order statistic of the exact samples.
    fn assert_within_bound(sketch: &QuantileSketch, sorted: &[f64], q: f64) {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        let exact = sorted[rank];
        let got = sketch.quantile(q);
        let tol = RELATIVE_ERROR * exact.abs() + ZERO_BAND;
        assert!(
            (got - exact).abs() <= tol,
            "q={q}: sketch {got} vs exact rank-{rank} sample {exact} (tol {tol})"
        );
    }

    fn check_distribution(samples: Vec<f64>) {
        let mut sketch = QuantileSketch::new();
        for &v in &samples {
            sketch.observe(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
            assert_within_bound(&sketch, &sorted, q);
        }
        assert_eq!(sketch.count(), samples.len());
        assert_eq!(sketch.max(), *sorted.last().unwrap());
        assert_eq!(sketch.min(), sorted[0]);
        let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((sketch.mean() - exact_mean).abs() <= 1e-12 * exact_mean.abs().max(1.0));
    }

    #[test]
    fn uniform_distribution_within_bound() {
        check_distribution((0..10_001).map(|i| 0.001 + 10.0 * unit(1, i)).collect());
    }

    #[test]
    fn bimodal_distribution_within_bound() {
        // Interactive-vs-batch shaped: tight cluster near 10ms, far cluster
        // near 100s — the case where interpolated percentiles sit in the gap
        // between modes and only an order-statistic bound is meaningful.
        check_distribution(
            (0..8_000)
                .map(|i| {
                    if i % 4 == 0 {
                        100.0 + unit(2, i)
                    } else {
                        0.010 + 0.002 * unit(3, i)
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn heavy_tail_distribution_within_bound() {
        // Pareto-ish tail: u^-2 over a 0.05s scale, spanning ~6 decades.
        check_distribution(
            (0..20_000)
                .map(|i| 0.05 * (1.0 - unit(4, i)).powi(-2).min(1e6))
                .collect(),
        );
    }

    #[test]
    fn negative_samples_supported() {
        // TTFT slack distributions cross zero.
        check_distribution((0..5_000).map(|i| 20.0 * unit(5, i) - 10.0).collect());
    }

    #[test]
    fn merge_is_order_independent() {
        let shards: Vec<QuantileSketch> = (0..8)
            .map(|s| {
                let mut sk = QuantileSketch::new();
                for i in 0..2_000u64 {
                    sk.observe(0.001 + 5.0 * unit(100 + s, i));
                }
                sk
            })
            .collect();
        let mut forward = QuantileSketch::new();
        for s in &shards {
            forward.merge(s);
        }
        let mut reverse = QuantileSketch::new();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        // Pairwise tree merge, as a parallel reduction would do it.
        let mut tree: Vec<QuantileSketch> = shards.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut m = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    m.merge(b);
                }
                next.push(m);
            }
            tree = next;
        }
        let tree = tree.pop().unwrap();
        assert_eq!(forward.count(), reverse.count());
        assert_eq!(forward.count(), tree.count());
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            // Bucket counters are integers, so quantiles are bit-identical
            // whatever the merge order.
            assert_eq!(forward.quantile(q).to_bits(), reverse.quantile(q).to_bits());
            assert_eq!(forward.quantile(q).to_bits(), tree.quantile(q).to_bits());
        }
        assert_eq!(forward.max().to_bits(), tree.max().to_bits());
        assert_eq!(forward.min().to_bits(), tree.min().to_bits());
        // Only the float mean depends (at ULP scale) on merge order.
        assert!((forward.mean() - reverse.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_single_sketch_quantiles() {
        let mut whole = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..4_000u64 {
            let v = 0.01 + 3.0 * unit(7, i);
            whole.observe(v);
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        left.merge(&right);
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(whole.quantile(q).to_bits(), left.quantile(q).to_bits());
        }
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        let empty = QuantileSketch::new();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.summary(), SummaryStats::default());

        let mut one = QuantileSketch::new();
        one.observe(42.0);
        // The [min, max] clamp makes single-sample queries exact.
        assert_eq!(one.quantile(0.0), 42.0);
        assert_eq!(one.quantile(0.5), 42.0);
        assert_eq!(one.quantile(1.0), 42.0);
        assert_eq!(one.summary().count, 1);
        assert_eq!(one.summary().mean, 42.0);
        assert_eq!(one.summary().max, 42.0);

        let mut zero = QuantileSketch::new();
        zero.observe(0.0);
        assert_eq!(zero.quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_rejected() {
        QuantileSketch::new().observe(f64::NAN);
    }

    #[test]
    fn bucket_count_is_bounded_by_value_range_not_sample_count() {
        let mut sketch = QuantileSketch::new();
        for i in 0..100_000u64 {
            sketch.observe(0.001 + unit(9, i));
        }
        assert_eq!(sketch.count(), 100_000);
        // Buckets are bounded by the magnitude range (here 0.001..1.001,
        // about log_gamma(1000) ~ 346 buckets), independent of sample count.
        let key_span = ((1.001f64 / 0.001).ln() / sketch.ln_gamma).ceil() as usize + 2;
        let buckets = |s: &QuantileSketch| s.pos.len() + s.neg.len() + usize::from(s.zero > 0);
        assert!(
            buckets(&sketch) <= key_span,
            "{} buckets exceeds range bound {key_span}",
            buckets(&sketch)
        );
        // Doubling the sample count stays under the same range bound: the
        // footprint converges to the occupied key range, not to n.
        for i in 100_000..200_000u64 {
            sketch.observe(0.001 + unit(9, i));
        }
        assert!(buckets(&sketch) <= key_span);
    }
}
