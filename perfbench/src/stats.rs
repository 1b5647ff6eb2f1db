//! Order statistics for timing samples.

/// Nearest-rank percentile of `samples` (need not be sorted); 0 when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it (never below the median).
pub fn tail_p(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Value at [`tail_p`] — what every `*_p99` metric reports.
pub fn tail(samples: &[f64]) -> f64 {
    percentile(samples, tail_p(samples.len()))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_p(1000), 0.99);
        assert!((tail_p(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_p(12), 0.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), 90.0);
        assert_eq!(median(&s), 50.0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
