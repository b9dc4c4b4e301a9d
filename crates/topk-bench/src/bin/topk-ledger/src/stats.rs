//! Order statistics shared by every workload.

/// Nearest-rank percentile: the smallest sample with at least a `p`
/// share of all samples at or below it (`p` in `(0, 1]`).
///
/// # Panics
/// On an empty sample set.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// epsilon keeps `0.95 * 200` at rank 190 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of a host timing, refused unless at least
/// ten samples lie beyond it: a tail read from fewer samples is a
/// handful of outliers, not a percentile. p95 therefore needs 200
/// samples. Simulated timings repeat exactly and use [`nearest_rank`].
pub fn host_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples.len() - rank(samples.len().max(1), p).min(samples.len());
    if samples.is_empty() || beyond < 10 {
        return Err(format!(
            "p{} of {} host samples leaves {beyond} beyond it; at least 10 are needed",
            p * 100.0,
            samples.len()
        ));
    }
    Ok(nearest_rank(samples, p))
}

/// Median (nearest-rank, so the lower middle of an even count).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

/// Geometric mean of positive ratios; `0.0` for none.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.91), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn host_p95_needs_two_hundred_samples() {
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(host_percentile(&s, 0.95), Ok(189.0));
        let err = host_percentile(&s[..199], 0.95).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(host_percentile(&[], 0.5).is_err());
        // The median needs only twenty.
        assert!(host_percentile(&s[..20], 0.5).is_ok());
        assert!(host_percentile(&s[..19], 0.5).is_err());
    }

    #[test]
    fn geomean_and_ratio_handle_empty_inputs() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
