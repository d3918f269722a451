//! Order statistics over measured samples.

/// The median of `values` (mean of the middle pair for even counts;
/// `0.0` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted` (`0` when
/// empty).
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied().unwrap_or(0)
}

/// `num / den`, or `0.0` when the denominator is zero.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den.abs() > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).to_bits(), 2.0f64.to_bits());
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).to_bits(), 2.5f64.to_bits());
        assert_eq!(median(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
