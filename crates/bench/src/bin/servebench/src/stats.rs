//! Order statistics behind the reported numbers.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: which quantile it is, its value, and
/// the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank quantile `q` of `sorted` when at least [`MIN_BEYOND`]
/// samples lie beyond it; otherwise the highest nearest-rank quantile that
/// has that many. `None` with fewer than `MIN_BEYOND + 1` samples.
pub fn tail(sorted: &[f64], q: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let idx = (rank - 1).min(n - 1 - MIN_BEYOND);
    Some(Tail {
        q: (idx + 1) as f64 / n as f64,
        value: sorted[idx],
        samples: n,
    })
}

/// Median of sorted samples (mean of the middle two for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), which is
/// how the run-to-run spread of a metric is judged.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Median and quartiles of a metric's per-repetition values.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values.to_vec());
        let (q1, q3) = quartiles(&v);
        Summary {
            median: median(&v),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Sorts a sample vector for [`tail`] and [`median`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: the nearest-rank p99 is the 990th, with exactly 10
        // beyond it.
        let t = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.samples, 1000);
        // 500 samples: p99 would have 5 beyond; fall back to the 490th,
        // the highest rank with 10 beyond.
        let t = tail(&ramp(500), 0.99).unwrap();
        assert_eq!(t.value, 490.0);
        assert!((t.q - 0.98).abs() < 1e-12);
        // A quantile low enough already has 10 beyond: unchanged.
        assert_eq!(tail(&ramp(500), 0.5).unwrap().value, 250.0);
        // 11 samples is the least that supports any tail.
        assert_eq!(tail(&ramp(11), 0.99).unwrap().value, 1.0);
        assert!(tail(&ramp(10), 0.99).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), (1.0, 3.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
