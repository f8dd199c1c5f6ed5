//! Order statistics over measured samples.

/// `values` sorted ascending (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here and by a
/// script over the same samples agree. One sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len as i64 + 1;
    // Python clamps the cut index and then extrapolates past the ends
    // (a negative `delta`), so the arithmetic is signed.
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The nearest-rank `p`-quantile: at `p = 0.9` over 100 samples, exactly
/// ten samples lie above it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let data = sorted(values);
    let rank = (p * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 2], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_leaves_the_tail_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }
}
