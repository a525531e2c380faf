//! Order statistics for the reported timings.
//!
//! Timings are reported as a median plus the highest tail percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, together with
//! the sample count, so a tail figure never rests on one or two outliers.

/// Samples a reported tail percentile must leave above it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the percentiles 99, 95, 90, 75 and 50 that leaves at
/// least [`TAIL_SAMPLES`] samples above it for `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    for p in [99usize, 95, 90, 75] {
        // Samples strictly above the nearest-rank position.
        if n - (p * n).div_ceil(100) >= TAIL_SAMPLES {
            return p as f64;
        }
    }
    50.0
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(10), 50.0);
    }
}
