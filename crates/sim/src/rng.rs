//! Seeded randomness for workload generation.
//!
//! All synthetic traces in the reproduction (file accesses, workstation
//! idle/active cycles, parallel job arrivals, NFS op mixes) draw from
//! [`SimRng`]. The distributions are implemented here, on top of `rand`'s
//! uniform source, so that the exact sequence of variates is pinned by this
//! crate rather than by an external distributions crate.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random source for simulations.
///
/// Two `SimRng`s built with the same seed produce identical streams, and a
/// simulation that derives all randomness from one `SimRng` is replayable.
/// Use [`SimRng::fork`] to give independent components independent streams
/// that are still fully determined by the root seed.
///
/// # Example
///
/// ```
/// use now_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.gen_range(0..100), b.gen_range(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is a deterministic function of the parent's state,
    /// so forking N children in a fixed order is reproducible. Use one fork
    /// per simulated component to keep components' randomness decoupled (a
    /// new draw in one does not perturb the others).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.fork_seed())
    }

    /// Draws a seed for an independent child generator.
    ///
    /// `SimRng::new(rng.fork_seed())` is identical to `rng.fork()`; the split
    /// form lets a caller materialise the seed list up front (always in the
    /// same serial order) and construct the children later — possibly on
    /// other threads — so child *i* draws the same stream no matter how the
    /// work is scheduled.
    pub fn fork_seed(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `range` (half-open, like `rand`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.inner.gen_range(range)
    }

    /// Uniform `usize` in `[0, n)`, for indexing.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty collection");
        self.inner.gen_range(0..n)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed variate with the given mean.
    ///
    /// Used for memoryless arrival processes (job arrivals, user think
    /// times).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive and finite, got {mean}"
        );
        // Inverse-CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Pareto-distributed variate with scale `x_min` and shape `alpha`.
    ///
    /// Heavy-tailed: used for file sizes and parallel-job service times,
    /// whose empirical distributions are long-tailed.
    ///
    /// # Panics
    ///
    /// Panics unless `x_min > 0` and `alpha > 0`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0, "pareto scale must be positive, got {x_min}");
        assert!(alpha > 0.0, "pareto shape must be positive, got {alpha}");
        x_min / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Normal variate (Box–Muller) with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-uniform variate in `[lo, hi]`: uniform in log-space.
    ///
    /// Matches how parallel-job runtimes are distributed in MPP logs (the
    /// LANL CM-5 trace mixes seconds-long development runs with hours-long
    /// production runs).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo <= hi`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && lo <= hi, "need 0 < lo <= hi, got [{lo}, {hi}]");
        (lo.ln() + self.f64() * (hi.ln() - lo.ln())).exp()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

/// A Zipf(θ) sampler over ranks `0..n`, rank 0 most popular.
///
/// File popularity in the Berkeley traces — and in file-system traces
/// generally — is highly skewed: a few executables and font files account for
/// most accesses. The cooperative-caching trace generator uses this sampler
/// to reproduce that skew.
///
/// Sampling inverts the precomputed CDF through a guide table (Chen and
/// Asau, 1974): one cell per rank, each naming the first rank that can
/// answer a draw in it, so a draw searches only its cell's few ranks. The
/// rank is exactly the one a binary search over the whole CDF finds, ties
/// included, in O(1) expected steps at any skew.
///
/// # Example
///
/// ```
/// use now_sim::{SimRng, ZipfSampler};
///
/// let mut rng = SimRng::new(7);
/// let zipf = ZipfSampler::new(1_000, 0.8);
/// let mut hits_rank0 = 0;
/// for _ in 0..10_000 {
///     if zipf.sample(&mut rng) == 0 { hits_rank0 += 1; }
/// }
/// assert!(hits_rank0 > 500, "rank 0 should be heavily favoured");
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF lies in [`cell`] `j` or a
    /// later one, and `guide[n] = n`. Every rank before `guide[j]` has a
    /// CDF below any draw in cell `j`, and rank `guide[j + 1]` one above
    /// it.
    guide: Vec<u32>,
}

/// The guide cell of a CDF value or draw `u` over `n` ranks:
/// `min(⌊u·n⌋, n − 1)`, which never decreases as `u` grows.
fn cell(u: f64, n: usize) -> usize {
    ((u * n as f64) as usize).min(n - 1)
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with skew `theta`.
    ///
    /// `theta = 0` is uniform; `theta` near 1 is the classic Zipf curve.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or `theta` is negative.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one rank");
        assert!(theta >= 0.0, "zipf skew must be non-negative");
        let ranks = u32::try_from(n).expect("zipf sampler takes at most u32::MAX ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        let mut guide = Vec::with_capacity(n + 1);
        for (rank, &p) in (0..ranks).zip(&cdf) {
            while guide.len() <= cell(p, n) {
                guide.push(rank);
            }
        }
        guide.resize(n + 1, ranks);
        ZipfSampler { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false: [`ZipfSampler::new`] rejects zero ranks. Provided
    /// for symmetry with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank(rng.f64())
    }

    /// The rank a binary search of the CDF for `u` reports: the last rank
    /// whose CDF equals `u` if there is one, else the first whose CDF
    /// exceeds it, clamped to `n - 1`.
    fn rank(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let j = cell(u, n);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let above = lo + self.cdf[lo..hi].partition_point(|&p| p <= u);
        if above > 0 && self.cdf[above - 1] == u {
            above - 1
        } else {
            above.min(n - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000), b.gen_range(0..1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.gen_range(0..u64::MAX) == b.gen_range(0..u64::MAX))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = SimRng::new(9);
        let mut root2 = SimRng::new(9);
        let mut c1 = root1.fork();
        let mut c2 = root2.fork();
        assert_eq!(c1.gen_range(0..u64::MAX), c2.gen_range(0..u64::MAX));
        // Drawing from the child does not perturb the parent.
        assert_eq!(root1.gen_range(0..u64::MAX), root2.gen_range(0..u64::MAX));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.1,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_positive() {
        let mut rng = SimRng::new(6);
        assert!((0..1000).all(|_| rng.exponential(1.0) > 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_bad_mean() {
        SimRng::new(0).exponential(0.0);
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::new(7);
        assert!((0..1000).all(|_| rng.pareto(2.0, 1.5) >= 2.0));
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = SimRng::new(8);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn log_uniform_in_bounds() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let x = rng.log_uniform(1.0, 10_000.0);
            assert!((1.0..=10_000.0).contains(&x));
        }
    }

    #[test]
    fn log_uniform_median_is_geometric_mean() {
        let mut rng = SimRng::new(10);
        let mut xs: Vec<f64> = (0..9_999).map(|_| rng.log_uniform(1.0, 100.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            (median - 10.0).abs() < 1.5,
            "median {median} should be near 10"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "100 elements should move");
    }

    #[test]
    fn zipf_rank0_dominates() {
        let mut rng = SimRng::new(12);
        let z = ZipfSampler::new(100, 1.0);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[50] * 10,
            "rank 0 ({}) should dwarf rank 50 ({})",
            counts[0],
            counts[50]
        );
        // All samples in range (vec indexing would already have panicked).
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 50_000);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let mut rng = SimRng::new(13);
        let z = ZipfSampler::new(10, 0.0);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "uniform bucket {c}");
        }
    }

    /// The rank `sample` drew before the guide table.
    fn rank_by_binary_search(z: &ZipfSampler, u: f64) -> usize {
        match z
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    #[test]
    fn zipf_guide_rank_matches_binary_search_at_every_cdf_value() {
        // The serve catalog, the file-trace generator's shared and
        // private pools (both of its presets), the degenerate single
        // rank, the uniform case, and a steep tail whose CDF runs flat:
        // from rank 208,062 on the terms fall below half an ulp of the
        // running total, so the last 91,938 ranks share the CDF value 1.0.
        for (n, theta) in [
            (4_096, 0.9),
            (250, 0.96),
            (155, 0.96),
            (50, 0.85),
            (40, 0.85),
            (1, 0.9),
            (1_000, 0.0),
            (300_000, 3.0),
        ] {
            let z = ZipfSampler::new(n, theta);
            let ties = z.cdf.windows(2).filter(|w| w[0] == w[1]).count();
            assert!(theta < 3.0 || ties > 90_000, "n={n}: only {ties} ties");
            let edges = [0.0, 1.0f64.next_down()];
            for &p in z.cdf.iter().chain(&edges) {
                for u in [p.next_down(), p, p.next_up()] {
                    assert_eq!(
                        z.rank(u),
                        rank_by_binary_search(&z, u),
                        "n={n} theta={theta} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(14);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = SimRng::new(15);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }
}
