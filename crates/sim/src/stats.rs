//! Online statistics for summarising simulation output.
//!
//! Three flavours cover everything the experiments report:
//!
//! * [`Accumulator`] — streaming count/mean/variance/min/max (Welford's
//!   algorithm), for quantities where only moments are needed.
//! * [`Percentiles`] — stores samples and answers quantile queries, for
//!   response-time distributions ("95% of NFS messages are under 200 bytes").
//! * [`Histogram`] — fixed linear buckets, for shape plots.
//! * [`TimeWeighted`] — integrates a step function over simulated time, for
//!   utilization and occupancy ("more than 60% of workstations available").

use crate::SimTime;

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use now_sim::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.add(x);
/// }
/// assert_eq!(acc.count(), 8);
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Population variance (divide by n); zero if fewer than one sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation (divide by n−1); zero if fewer than two
    /// samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel-sweep friendly).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Stores samples for exact quantile queries.
///
/// Memory is O(samples); the experiments here collect at most a few million
/// samples, which is fine. Use [`Accumulator`] when only moments matter.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest-rank; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or any sample is NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median, i.e. `quantile(0.5)`.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Fraction of samples `<= threshold`; zero if empty.
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&x| x <= threshold).count();
        n as f64 / self.samples.len() as f64
    }
}

/// Fixed-width linear histogram over `[lo, hi)`, with underflow/overflow
/// buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `buckets > 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram needs lo < hi");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Bucket counts, in order from `lo` to `hi`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// Integrates a piecewise-constant value over simulated time.
///
/// Feed it `(time, new_value)` transitions; it reports the time-weighted
/// average, which is how utilization ("fraction of workstations idle") is
/// computed from a state trace.
///
/// # Example
///
/// ```
/// use now_sim::stats::TimeWeighted;
/// use now_sim::SimTime;
///
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.set(SimTime::from_secs(10), 1.0);  // value was 0.0 for 10 s
/// u.set(SimTime::from_secs(30), 0.0);  // value was 1.0 for 20 s
/// assert!((u.average(SimTime::from_secs(40)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    current: f64,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts integrating at `start` with initial value `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            current: value,
            integral: 0.0,
            start,
        }
    }

    /// Records that the value changed to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous transition.
    pub fn set(&mut self, t: SimTime, value: f64) {
        assert!(
            t >= self.last_time,
            "time-weighted updates must be monotone"
        );
        self.integral += self.current * (t - self.last_time).as_secs_f64();
        self.last_time = t;
        self.current = value;
    }

    /// Adds `delta` to the current value at time `t` (occupancy counters).
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let next = self.current + delta;
        self.set(t, next);
    }

    /// The current (most recently set) value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-weighted average from the start through `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last transition or equals the start.
    pub fn average(&self, end: SimTime) -> f64 {
        assert!(
            end >= self.last_time,
            "average endpoint precedes last update"
        );
        assert!(end > self.start, "empty integration interval");
        let integral = self.integral + self.current * (end - self.last_time).as_secs_f64();
        integral / (end - self.start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basics() {
        let mut a = Accumulator::new();
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert!(a.min().is_none());
        a.add(1.0);
        a.add(3.0);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(3.0));
    }

    #[test]
    fn accumulator_min_max_edge_cases() {
        let empty = Accumulator::new();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        // A single observation is both extremes, even when negative.
        let mut one = Accumulator::new();
        one.add(-7.25);
        assert_eq!(one.min(), Some(-7.25));
        assert_eq!(one.max(), Some(-7.25));
        // Merging an empty into an empty stays empty (the sentinel
        // infinities never leak out through the Option API).
        let mut merged = Accumulator::new();
        merged.merge(&Accumulator::new());
        assert_eq!(merged.min(), None);
        assert_eq!(merged.max(), None);
        // Merging a populated accumulator into an empty one adopts its
        // extremes.
        merged.merge(&one);
        assert_eq!(merged.min(), Some(-7.25));
        assert_eq!(merged.max(), Some(-7.25));
    }

    #[test]
    fn accumulator_variance_matches_naive() {
        let xs = [1.5, 2.5, 2.5, 2.75, 3.25, 4.75];
        let mut a = Accumulator::new();
        for &x in &xs {
            a.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((a.population_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.add(5.0);
        let before = a.clone();
        a.merge(&Accumulator::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn percentiles_quantiles() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.add(x as f64);
        }
        assert_eq!(p.quantile(0.5), Some(50.0));
        assert_eq!(p.quantile(0.95), Some(95.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
    }

    #[test]
    fn percentiles_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert_eq!(p.median(), None);
    }

    #[test]
    fn percentiles_fraction_at_most() {
        let mut p = Percentiles::new();
        for x in [50.0, 100.0, 150.0, 200.0, 1000.0] {
            p.add(x);
        }
        assert!((p.fraction_at_most(200.0) - 0.8).abs() < 1e-12);
        assert_eq!(p.fraction_at_most(10.0), 0.0);
        assert_eq!(p.fraction_at_most(2000.0), 1.0);
    }

    #[test]
    fn percentiles_interleaved_add_and_query() {
        let mut p = Percentiles::new();
        p.add(3.0);
        p.add(1.0);
        assert_eq!(p.median(), Some(1.0));
        p.add(2.0); // must re-sort after new sample
        assert_eq!(p.median(), Some(2.0));
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(-1.0); // underflow
        h.add(0.0); // first bucket (inclusive lo)
        h.add(9.99); // last bucket
        h.add(10.0); // overflow (exclusive hi)
        h.add(5.0); // middle
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets(), &[1, 0, 1, 0, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn time_weighted_average() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 2.0);
        u.set(SimTime::from_secs(5), 4.0);
        // 2.0 for 5 s, then 4.0 for 5 s => average 3.0
        assert!((u.average(SimTime::from_secs(10)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_tracks_occupancy() {
        let mut occ = TimeWeighted::new(SimTime::ZERO, 0.0);
        occ.add(SimTime::from_secs(1), 1.0); // one job from t=1
        occ.add(SimTime::from_secs(2), 1.0); // two jobs from t=2
        occ.add(SimTime::from_secs(3), -2.0); // idle from t=3
        assert_eq!(occ.current(), 0.0);
        // integral = 0*1 + 1*1 + 2*1 + 0*1 = 3 over 4 s
        assert!((occ.average(SimTime::from_secs(4)) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_weighted_rejects_time_travel() {
        let mut u = TimeWeighted::new(SimTime::from_secs(10), 1.0);
        u.set(SimTime::from_secs(5), 2.0);
    }
}
