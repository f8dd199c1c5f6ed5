//! Mergeable streaming quantile sketch with guaranteed relative error.
//!
//! The serving experiments push millions of requests through a run;
//! retaining every latency to compute p99/p999 would make observation
//! memory O(events). [`QuantileSketch`] is a DDSketch-style log-bucketed
//! summary instead: values land in geometrically sized buckets chosen so
//! that any quantile estimate is within a configurable relative error
//! `alpha` of the true value, while memory stays a fixed few kilobytes
//! regardless of stream length.
//!
//! Two properties matter to the harness:
//!
//! * **Guaranteed accuracy** — for any recorded value `v > 0` the bucket
//!   midpoint estimate `e` satisfies `|e - v| <= alpha * v`, so
//!   nearest-rank quantiles inherit the same bound (estimates are
//!   additionally clamped into `[min, max]`, which never weakens it).
//! * **Exact mergeability** — bucketing is pointwise, so merging per-shard
//!   sketches (elementwise bucket sums) produces *bit-identical* state to
//!   sketching the concatenated stream. Parallel runs can therefore keep
//!   one sketch per worker and merge in input order without breaking the
//!   workspace's byte-identical-output discipline.

/// Default relative-error bound: quantile estimates within 1%.
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// Smallest relative-error bound a sketch takes: about 222k buckets
/// (1.8 MB) cover the `u64` range at 1e-4, and the count grows as
/// `1 / alpha` below it.
const MIN_SKETCH_ALPHA: f64 = 1e-4;

/// A streaming quantile sketch over `u64` values (typically latency
/// nanoseconds) with bounded relative error and O(buckets) memory.
///
/// # Example
///
/// ```
/// use now_probe::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for v in 1..=1000u64 {
///     s.record(v);
/// }
/// let p50 = s.quantile(0.50).unwrap();
/// assert!((p50 - 500.0).abs() <= 0.01 * 500.0 + 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// The guaranteed relative-error bound.
    alpha: f64,
    /// `gamma = (1 + alpha) / (1 - alpha)`: the bucket growth factor.
    gamma: f64,
    /// Precomputed `ln(gamma)`.
    ln_gamma: f64,
    /// Count of zero values (bucket geometry covers only `v >= 1`).
    zero: u64,
    /// `buckets[k]` counts values with `ceil(ln(v) / ln(gamma)) == k`,
    /// i.e. `v` in `(gamma^(k-1), gamma^k]`. Dense, fixed size: the full
    /// `u64` range needs ~2.2k buckets at `alpha = 0.01`.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// A sketch with [`DEFAULT_SKETCH_ALPHA`] relative error.
    pub fn new() -> Self {
        QuantileSketch::with_alpha(DEFAULT_SKETCH_ALPHA)
    }

    /// A sketch guaranteeing relative error at most `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `1e-4 <= alpha < 1`: the buckets cover the whole
    /// `u64` range, so a smaller alpha asks for millions of them, and near
    /// 1e-17 their growth factor rounds to 1.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(
            (MIN_SKETCH_ALPHA..1.0).contains(&alpha),
            "sketch alpha must be in [1e-4, 1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let ln_gamma = gamma.ln();
        // Highest index any u64 can map to: ceil(ln(u64::MAX) / ln(gamma)).
        let top = ((u64::MAX as f64).ln() / ln_gamma).ceil() as usize;
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma,
            zero: 0,
            buckets: vec![0; top + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The bucket index holding `value` (`value >= 1`):
    /// `ceil(ln(value) / ln(gamma))`, clamped to the last bucket.
    ///
    /// The ceiling is taken with integer operations, not `f64::ceil`,
    /// which is a libm call on baseline x86-64. `x` is finite and at least
    /// 0 (a `u64` has `ln` at most 44.4), so truncation rounds it down and
    /// one compare tells whether it had a fractional part; the result
    /// equals `x.ceil()` for every such `x` below 2^63.
    #[inline]
    fn index_of(&self, value: u64) -> usize {
        debug_assert!(value >= 1);
        let x = (value as f64).ln() / self.ln_gamma;
        let t = x as usize;
        let k = if (t as f64) < x { t + 1 } else { t };
        k.min(self.buckets.len() - 1)
    }

    /// The midpoint estimate for bucket `k`: the value minimizing worst-
    /// case relative error over `(gamma^(k-1), gamma^k]`, namely
    /// `2 * gamma^k / (gamma + 1)`.
    fn estimate_of(&self, k: usize) -> f64 {
        2.0 * self.gamma.powi(k as i32) / (self.gamma + 1.0)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        if value == 0 {
            self.zero += 1;
        } else {
            let k = self.index_of(value);
            self.buckets[k] += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The nearest-rank `p`-quantile estimate (`0 <= p <= 1`), within
    /// `alpha` relative error of the exact sorted-sample quantile.
    /// `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero {
            return Some(0.0);
        }
        let mut seen = self.zero;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let est = self.estimate_of(k);
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// Merges `other` into `self` — elementwise bucket sums, so the result
    /// is identical to having recorded both streams into one sketch.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `alpha` (their
    /// bucket geometries disagree).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.alpha.to_bits(),
            other.alpha.to_bits(),
            "cannot merge sketches with different alpha"
        );
        self.zero += other.zero;
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate heap + inline footprint in bytes, for the
    /// `probe.observation_bytes` self-accounting gauge.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buckets.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile over a sorted copy — the reference the
    /// sketch's bound is stated against.
    fn exact_quantile(values: &[u64], p: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        sorted[(rank - 1) as usize]
    }

    fn assert_within_alpha(sketch: &QuantileSketch, values: &[u64], p: f64) {
        let est = sketch.quantile(p).unwrap();
        let exact = exact_quantile(values, p) as f64;
        // Tiny slack absorbs f64 ln/ceil boundary placement.
        let tol = sketch.alpha() * exact + 1e-6 * exact + 1e-9;
        assert!(
            (est - exact).abs() <= tol,
            "p{p}: estimate {est} vs exact {exact} exceeds alpha {}",
            sketch.alpha()
        );
    }

    /// The bucket index as `f64::ceil` takes it: the reference for the
    /// integer ceiling in `index_of`.
    fn float_index(s: &QuantileSketch, value: u64) -> usize {
        let k = ((value as f64).ln() / s.ln_gamma).ceil();
        (k.max(0.0) as usize).min(s.buckets.len() - 1)
    }

    /// The least value the float formula puts in bucket `k` or above
    /// (which is monotone in the value), found by binary search.
    fn first_at_or_above(s: &QuantileSketch, k: usize) -> u64 {
        let (mut lo, mut hi) = (1u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if float_index(s, mid) >= k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn bucket_index_matches_the_float_formula() {
        for alpha in [DEFAULT_SKETCH_ALPHA, 0.02] {
            let s = QuantileSketch::with_alpha(alpha);
            let check = |v: u64| {
                assert_eq!(
                    s.index_of(v),
                    float_index(&s, v),
                    "alpha {alpha}, value {v}"
                );
            };
            for v in 1..=1_000_000 {
                check(v);
            }
            // Around every bucket boundary, where the float formula
            // itself moves to the next bucket.
            for k in 1..s.buckets.len() {
                let first = first_at_or_above(&s, k);
                for v in first.saturating_sub(64).max(1)..=first.saturating_add(64) {
                    check(v);
                }
            }
            // Random values of every magnitude.
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..200_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                check((x >> (x % 64)).max(1));
            }
            for v in [2, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, 1 << 63] {
                check(v);
            }
            check(u64::MAX - 1);
            check(u64::MAX);
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn single_value_is_recovered_within_alpha() {
        for v in [1u64, 7, 1_000, 123_456_789, u64::MAX / 3] {
            let mut s = QuantileSketch::new();
            s.record(v);
            for p in [0.0, 0.5, 0.99, 1.0] {
                let est = s.quantile(p).unwrap();
                assert!((est - v as f64).abs() <= 0.01 * v as f64 + 1.0);
            }
        }
    }

    #[test]
    fn zeros_are_exact() {
        let mut s = QuantileSketch::new();
        for _ in 0..10 {
            s.record(0);
        }
        s.record(100);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(100));
    }

    #[test]
    fn uniform_stream_quantiles_within_bound() {
        let values: Vec<u64> = (1..=10_000u64).collect();
        let mut s = QuantileSketch::new();
        for &v in &values {
            s.record(v);
        }
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            assert_within_alpha(&s, &values, p);
        }
    }

    #[test]
    fn heavy_tailed_stream_quantiles_within_bound() {
        // Deterministic LCG over ~6 decades, exercising many buckets.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let values: Vec<u64> = (0..50_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1 + (x >> 33) % 10u64.pow(1 + (x % 6) as u32)
            })
            .collect();
        let mut s = QuantileSketch::new();
        for &v in &values {
            s.record(v);
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_within_alpha(&s, &values, p);
        }
    }

    #[test]
    fn merge_equals_concatenated_stream_exactly() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut whole = QuantileSketch::new();
        for v in 1..=5_000u64 {
            let shard = if v % 2 == 0 { &mut a } else { &mut b };
            shard.record(v * 31 % 100_000);
            whole.record(v * 31 % 100_000);
        }
        a.merge(&b);
        assert_eq!(
            a, whole,
            "merged shards must be bit-identical to one stream"
        );
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::with_alpha(0.01);
        let b = QuantileSketch::with_alpha(0.02);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "sketch alpha must be in [1e-4, 1)")]
    fn an_alpha_too_small_to_size_is_rejected() {
        QuantileSketch::with_alpha(1e-12);
    }

    #[test]
    #[should_panic(expected = "sketch alpha must be in [1e-4, 1)")]
    fn an_alpha_whose_growth_factor_rounds_to_one_is_rejected() {
        QuantileSketch::with_alpha(1e-17);
    }

    #[test]
    fn the_smallest_alpha_builds_and_records() {
        let mut s = QuantileSketch::with_alpha(MIN_SKETCH_ALPHA);
        assert!(s.approx_bytes() < 2 * 1024 * 1024, "{} B", s.approx_bytes());
        for v in [0, 1_000, u64::MAX] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        let p50 = s.quantile(0.5).unwrap();
        assert!(
            (p50 - 1_000.0).abs() <= MIN_SKETCH_ALPHA * 1_000.0,
            "p50 {p50}"
        );
        assert_eq!(s.quantile(1.0), Some(u64::MAX as f64));
    }

    #[test]
    fn memory_is_independent_of_stream_length() {
        let mut s = QuantileSketch::new();
        let before = s.approx_bytes();
        for v in 0..100_000u64 {
            s.record(v * 997);
        }
        assert_eq!(s.approx_bytes(), before, "recording must not allocate");
        assert!(before < 64 * 1024, "sketch stays a few tens of KB");
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed() {
        let mut s = QuantileSketch::new();
        for v in [3u64, 17, 90, 1_200, 88_000] {
            s.record(v);
        }
        let q: Vec<f64> = [0.1, 0.5, 0.9, 0.999]
            .iter()
            .map(|&p| s.quantile(p).unwrap())
            .collect();
        for w in q.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone in p");
        }
        assert!(q[0] >= s.min().unwrap() as f64);
        assert!(*q.last().unwrap() <= s.max().unwrap() as f64);
    }
}
