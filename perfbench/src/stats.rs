//! Order statistics over per-pass samples.
//!
//! The quartiles use the same "exclusive" interpolation as Python's
//! `statistics.quantiles(xs, n=4)`, so the spread this benchmark prints
//! for a metric within one run is computed the same way as the spread
//! across runs that the acceptance check uses.

/// Median of `xs`: the middle value, or the mean of the two middle
/// values for an even count. NaN when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the exclusive method. A single
/// sample is its own quartiles; NaN when `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [s[0]; 3],
        _ => {
            let m = n + 1;
            let mut q = [0.0; 3];
            for (i, out) in (1..4).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, n - 1);
                // May be negative at the clamped ends: Python extrapolates.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *out = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
            }
            q
        }
    }
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0, so an all-zero counter reads as perfectly steady).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest percentile that still has at least ten samples above it,
/// as `(percentile, value)`: the value at rank `n - 10` of the sorted
/// samples, which is the `100 * (n - 10) / n`-th percentile by nearest
/// rank. `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let s = sorted(xs);
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// The `q`-quantile (`0..=1`) by nearest rank; 0 when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = (q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize;
    s[rank.saturating_sub(1).min(s.len() - 1)]
}

/// Geometric mean of positive values; NaN when `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0 (a ratio over an event that did not
/// happen, such as the steal success ratio of a one-worker run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("100 samples");
        assert_eq!(pct, 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn quantile_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
