//! Summary statistics for repeated-seed experiment runs.

/// Mean, spread, and 95% confidence interval of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected); 0 for n < 2.
    pub stddev: f64,
    /// Half-width of the normal-approximation 95% CI (`1.96·σ/√n`).
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// The `q`-th quantile (`q ∈ [0,1]`) by linear interpolation between order
/// statistics; `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// The median (50th percentile); `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Summarizes a sample; returns zeros for an empty slice.
pub fn summarize(xs: &[f64]) -> Summary {
    let n = xs.len();
    if n == 0 {
        return Summary {
            n: 0,
            mean: 0.0,
            stddev: 0.0,
            ci95: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = if n >= 2 {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
    } else {
        0.0
    };
    let stddev = var.sqrt();
    Summary {
        n,
        mean,
        stddev,
        ci95: 1.96 * stddev / (n as f64).sqrt(),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn singleton_has_zero_spread() {
        let s = summarize(&[5.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn empty_is_zeros() {
        let s = summarize(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(median(&[]), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        quantile(&[1.0], 1.5);
    }
}
