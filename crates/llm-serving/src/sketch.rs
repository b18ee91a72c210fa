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
//! # Bucket store
//!
//! Each sign's buckets are plain `u64` counters in a dense store (DDSketch's
//! dense store): one `Vec` over the contiguous key range from the lowest to
//! the highest key seen, empty until the first sample, grown at either end
//! when a sample or a merge lands outside it. Latency keys cluster in a few
//! hundred adjacent buckets, so recording a sample is one index and add,
//! and the footprint is bounded by the value range, not the sample count.
//!
//! # Determinism and merging
//!
//! [`QuantileSketch::merge`] widens the range to cover both stores and adds
//! the counters bucket by bucket: integer addition, exactly associative and
//! commutative. Merging per-replica sketches in any order yields
//! bit-identical bucket contents, hence bit-identical quantiles, regardless
//! of replica ordering or worker-thread count. (Only the running `sum` used
//! for the mean is a float accumulation; the cluster always merges in
//! replica-index order, so means are deterministic for a fixed fleet too.)
//!
//! Two sketches are equal when their non-empty buckets and their exact
//! tallies are: how far a store's range happens to extend over empty
//! buckets (which depends on the order samples and merges arrived in) is
//! not part of a sketch's value.

use crate::metrics::SummaryStats;

/// Relative accuracy `alpha` of every [`QuantileSketch`]: 1%.
const RELATIVE_ERROR: f64 = 0.01;

/// Magnitudes at or below this collapse into the sketch's zero band and are
/// reported as exactly `0.0`. Latency samples are in seconds; a picosecond
/// resolution floor is far below anything the cost model produces.
const ZERO_BAND: f64 = 1e-12;

/// Bucket counters over one contiguous key range: `counts[i]` holds key
/// `offset + i`.
#[derive(Debug, Clone, Default)]
struct DenseStore {
    offset: i32,
    counts: Vec<u64>,
}

impl DenseStore {
    /// Widen the range to cover `lo..=hi`.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.counts.is_empty() {
            self.offset = lo;
            self.counts.resize((hi - lo) as usize + 1, 0);
            return;
        }
        if lo < self.offset {
            let grow = (self.offset - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat(0).take(grow));
            self.offset = lo;
        }
        let end = (hi - self.offset) as usize + 1;
        if end > self.counts.len() {
            self.counts.resize(end, 0);
        }
    }

    /// Add `n` to bucket `key`.
    fn add(&mut self, key: i32, n: u64) {
        self.cover(key, key);
        self.counts[(key - self.offset) as usize] += n;
    }

    /// Add every bucket of `other`.
    fn merge(&mut self, other: &DenseStore) {
        if other.counts.is_empty() {
            return;
        }
        let other_hi = other.offset + (other.counts.len() - 1) as i32;
        self.cover(other.offset, other_hi);
        let start = (other.offset - self.offset) as usize;
        for (mine, &theirs) in self.counts[start..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Non-empty `(key, count)` buckets in ascending key order.
    fn buckets(&self) -> impl DoubleEndedIterator<Item = (i32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.offset + i as i32, c))
    }
}

impl PartialEq for DenseStore {
    fn eq(&self, other: &Self) -> bool {
        self.buckets().eq(other.buckets())
    }
}

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
    pos: DenseStore,
    /// Bucket counters for negative magnitudes (same keying on `|v|`).
    neg: DenseStore,
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
            pos: DenseStore::default(),
            neg: DenseStore::default(),
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
            store.add(key, 1);
        }
    }

    /// Fold another sketch into this one: bucket-wise counter addition, so
    /// the result is independent of merge order (see module docs).
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
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
        for (k, c) in self.neg.buckets().rev() {
            cum += c;
            if cum > rank {
                return (-self.representative(k)).clamp(self.min, self.max);
            }
        }
        cum += self.zero;
        if cum > rank {
            return 0.0f64.clamp(self.min, self.max);
        }
        for (k, c) in self.pos.buckets() {
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
    use std::collections::BTreeMap;

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

    /// The ordered bucket store the dense store replaced: one `BTreeMap`
    /// entry per occupied key, per sign.
    #[derive(Clone, Default)]
    struct ReferenceSketch {
        pos: BTreeMap<i32, u64>,
        neg: BTreeMap<i32, u64>,
        zero: u64,
        count: u64,
        min: f64,
        max: f64,
    }

    impl ReferenceSketch {
        fn new() -> Self {
            ReferenceSketch {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                ..ReferenceSketch::default()
            }
        }

        fn observe(&mut self, keys: &QuantileSketch, value: f64) {
            self.count += 1;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            if value.abs() <= ZERO_BAND {
                self.zero += 1;
                return;
            }
            let store = if value > 0.0 {
                &mut self.pos
            } else {
                &mut self.neg
            };
            *store.entry(keys.key_for(value.abs())).or_insert(0) += 1;
        }

        fn merge(&mut self, other: &ReferenceSketch) {
            for (&k, &c) in &other.pos {
                *self.pos.entry(k).or_insert(0) += c;
            }
            for (&k, &c) in &other.neg {
                *self.neg.entry(k).or_insert(0) += c;
            }
            self.zero += other.zero;
            self.count += other.count;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn quantile(&self, keys: &QuantileSketch, q: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
            let mut cum = 0u64;
            for (&k, &c) in self.neg.iter().rev() {
                cum += c;
                if cum > rank {
                    return (-keys.representative(k)).clamp(self.min, self.max);
                }
            }
            cum += self.zero;
            if cum > rank {
                return 0.0f64.clamp(self.min, self.max);
            }
            for (&k, &c) in &self.pos {
                cum += c;
                if cum > rank {
                    return keys.representative(k).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    /// Assert the dense sketch holds exactly the reference's buckets and
    /// answers every quantile with the same bits.
    fn assert_matches_reference(sketch: &QuantileSketch, reference: &ReferenceSketch, case: &str) {
        let listed = |m: &BTreeMap<i32, u64>| m.iter().map(|(&k, &c)| (k, c)).collect::<Vec<_>>();
        assert_eq!(
            sketch.pos.buckets().collect::<Vec<_>>(),
            listed(&reference.pos),
            "{case}"
        );
        assert_eq!(
            sketch.neg.buckets().collect::<Vec<_>>(),
            listed(&reference.neg),
            "{case}"
        );
        assert_eq!(sketch.zero, reference.zero, "{case}");
        assert_eq!(sketch.count, reference.count, "{case}");
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            assert_eq!(
                sketch.quantile(q).to_bits(),
                reference.quantile(sketch, q).to_bits(),
                "{case}: q={q}"
            );
        }
        let summary = sketch.summary();
        if reference.count > 0 {
            assert_eq!(
                summary.p50.to_bits(),
                reference.quantile(sketch, 0.5).to_bits()
            );
            assert_eq!(
                summary.p99.to_bits(),
                reference.quantile(sketch, 0.99).to_bits()
            );
            assert_eq!(summary.max.to_bits(), reference.max.to_bits());
        }
    }

    /// One random sample: mostly latency-like positives, some negatives
    /// (slack), some inside the zero band, and a wide tail so the key span
    /// exceeds 1,000 buckets.
    fn arb_sample(rng: &mut crate::rng::SplitMix64) -> f64 {
        let magnitude = match rng.next_usize(8) {
            0 => ZERO_BAND * rng.next_f64(),
            1 => 1e-9 * (1.0 + rng.next_f64()),
            2 => 1e3 * (1.0 + rng.next_f64()),
            _ => 0.001 + 5.0 * rng.next_f64(),
        };
        if rng.next_usize(4) == 0 {
            -magnitude
        } else {
            magnitude
        }
    }

    #[test]
    fn dense_store_matches_the_ordered_map_under_random_observe_and_merge() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x5EED);
        for case in 0..40 {
            let mut sketches: Vec<(QuantileSketch, ReferenceSketch)> = (0..4)
                .map(|_| (QuantileSketch::new(), ReferenceSketch::new()))
                .collect();
            for _ in 0..400 {
                let i = rng.next_usize(sketches.len());
                if rng.next_usize(10) == 0 {
                    // Merge one shard into another (possibly itself,
                    // through a snapshot).
                    let j = rng.next_usize(sketches.len());
                    let (from, from_ref) = (sketches[j].0.clone(), sketches[j].1.clone());
                    sketches[i].0.merge(&from);
                    sketches[i].1.merge(&from_ref);
                } else {
                    let v = arb_sample(&mut rng);
                    let (sk, reference) = &mut sketches[i];
                    sk.observe(v);
                    reference.observe(sk, v);
                }
            }
            for (i, (sk, reference)) in sketches.iter().enumerate() {
                assert_matches_reference(sk, reference, &format!("case {case}, shard {i}"));
            }
        }
    }

    #[test]
    fn dense_store_spans_more_than_a_thousand_buckets() {
        let mut sketch = QuantileSketch::new();
        let mut reference = ReferenceSketch::new();
        for i in 0..5_000u64 {
            // 1e-9 .. 1e3: twelve decades, about 1,400 keys.
            let v = 1e-9 * 10f64.powf(12.0 * unit(11, i));
            for v in [v, -v] {
                sketch.observe(v);
                reference.observe(&sketch, v);
            }
        }
        assert!(
            sketch.pos.counts.len() > 1_000,
            "span {}",
            sketch.pos.counts.len()
        );
        assert_matches_reference(&sketch, &reference, "wide span");
    }

    #[test]
    fn disjoint_ranges_merge_identically_in_both_orders() {
        let fill = |lo: f64, seed: u64| {
            let mut sketch = QuantileSketch::new();
            let mut reference = ReferenceSketch::new();
            for i in 0..1_000u64 {
                let v = lo * (1.0 + unit(seed, i));
                sketch.observe(v);
                reference.observe(&sketch, v);
            }
            (sketch, reference)
        };
        let (low, low_ref) = fill(0.001, 12);
        let (high, high_ref) = fill(100.0, 13);
        // Neither range touches the other: merging widens the store at the
        // top one way and at the bottom the other.
        let mut up = low.clone();
        up.merge(&high);
        let mut down = high.clone();
        down.merge(&low);
        let mut reference = low_ref;
        reference.merge(&high_ref);
        assert_matches_reference(&up, &reference, "low then high");
        assert_matches_reference(&down, &reference, "high then low");
        assert_eq!(up, down);
        // Merging an empty sketch either way changes nothing.
        let mut empty = QuantileSketch::new();
        empty.merge(&up);
        assert_eq!(empty, up);
        let before = up.clone();
        up.merge(&QuantileSketch::new());
        assert_eq!(up, before);
    }

    /// Equality reads only the non-empty buckets: a store whose range was
    /// widened over empty keys equals one that never was.
    #[test]
    fn equality_ignores_empty_range_ends() {
        let mut narrow = DenseStore::default();
        narrow.add(10, 3);
        let mut wide = DenseStore::default();
        wide.cover(5, 20);
        wide.add(10, 3);
        assert_eq!(narrow, wide);
        wide.add(20, 1);
        assert_ne!(narrow, wide);
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
        let buckets =
            |s: &QuantileSketch| s.pos.counts.len() + s.neg.counts.len() + usize::from(s.zero > 0);
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
